//! Annotation history: an append-only action log with undo — the
//! `annotation_history.txt` mechanism of the labeling tool.

use crate::store::{Interval, LabelStore};
use serde::{Deserialize, Serialize};

/// One labeling action.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    Label {
        node: usize,
        interval: Interval,
    },
    Unlabel {
        node: usize,
        start: usize,
        end: usize,
    },
}

/// The history: actions applied in order; undo pops the latest and
/// replays the remainder onto a fresh store (labels merge/split in
/// non-invertible ways, so replay is the only faithful undo).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AnnotationHistory {
    actions: Vec<Action>,
}

impl AnnotationHistory {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.actions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Apply an action to the store and record it.
    pub fn apply(&mut self, store: &mut LabelStore, action: Action) {
        match &action {
            Action::Label { node, interval } => store.label(*node, interval.clone()),
            Action::Unlabel { node, start, end } => store.unlabel(*node, *start, *end),
        }
        self.actions.push(action);
    }

    /// Undo the latest action by replaying the remainder. Returns the
    /// rebuilt store, or `None` when there is nothing to undo.
    pub fn undo(&mut self) -> Option<LabelStore> {
        self.actions.pop()?;
        Some(self.replay())
    }

    /// Rebuild a store from the full action log.
    pub fn replay(&self) -> LabelStore {
        let mut store = LabelStore::new();
        for a in &self.actions {
            match a {
                Action::Label { node, interval } => store.label(*node, interval.clone()),
                Action::Unlabel { node, start, end } => store.unlabel(*node, *start, *end),
            }
        }
        store
    }

    /// JSON-lines export (one action per line).
    pub fn to_jsonl(&self) -> String {
        self.actions
            .iter()
            .map(|a| serde_json::to_string(a).expect("action serialises"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parse a JSON-lines log. An action over an empty interval
    /// (`start >= end`) is refused, as [`LabelStore::load_csv`] refuses
    /// such a row: the store would hold an inverted interval.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut actions = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let action: Action =
                serde_json::from_str(line).map_err(|e| format!("line {i}: {e}"))?;
            let (start, end) = match &action {
                Action::Label { interval, .. } => (interval.start, interval.end),
                Action::Unlabel { start, end, .. } => (*start, *end),
            };
            if start >= end {
                return Err(format!("line {i}: empty interval {start}..{end}"));
            }
            actions.push(action);
        }
        Ok(Self { actions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_and_undo() {
        let mut store = LabelStore::new();
        let mut hist = AnnotationHistory::new();
        hist.apply(
            &mut store,
            Action::Label {
                node: 0,
                interval: Interval::new(10, 20, "a"),
            },
        );
        hist.apply(
            &mut store,
            Action::Label {
                node: 0,
                interval: Interval::new(30, 40, "b"),
            },
        );
        hist.apply(
            &mut store,
            Action::Unlabel {
                node: 0,
                start: 12,
                end: 15,
            },
        );
        assert_eq!(store.intervals(0).len(), 3);
        // Undo the unlabel: back to two whole intervals.
        let store = hist.undo().unwrap();
        assert_eq!(store.intervals(0).len(), 2);
        assert_eq!(store.intervals(0)[0], Interval::new(10, 20, "a"));
        // Undo everything.
        let store = hist.undo().unwrap();
        assert_eq!(store.intervals(0).len(), 1);
        let store = hist.undo().unwrap();
        assert!(store.intervals(0).is_empty());
        assert!(hist.undo().is_none());
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut store = LabelStore::new();
        let mut hist = AnnotationHistory::new();
        hist.apply(
            &mut store,
            Action::Label {
                node: 2,
                interval: Interval::new(1, 5, "x"),
            },
        );
        hist.apply(
            &mut store,
            Action::Unlabel {
                node: 2,
                start: 2,
                end: 3,
            },
        );
        let text = hist.to_jsonl();
        let hist2 = AnnotationHistory::from_jsonl(&text).unwrap();
        assert_eq!(hist2.len(), 2);
        let rebuilt = hist2.replay();
        assert_eq!(rebuilt.intervals(2), store.intervals(2));
    }

    #[test]
    fn corrupt_jsonl_is_an_error() {
        assert!(AnnotationHistory::from_jsonl("not json").is_err());
    }

    #[test]
    fn jsonl_with_an_empty_interval_is_an_error() {
        let inverted_label = r#"{"Label":{"node":0,"interval":{"start":5,"end":2,"note":"x"}}}"#;
        assert_eq!(
            AnnotationHistory::from_jsonl(inverted_label)
                .err()
                .as_deref(),
            Some("line 0: empty interval 5..2")
        );
        let label = r#"{"Label":{"node":0,"interval":{"start":0,"end":10,"note":""}}}"#;
        let inverted_unlabel = r#"{"Unlabel":{"node":0,"start":5,"end":2}}"#;
        assert_eq!(
            AnnotationHistory::from_jsonl(&format!("{label}\n{inverted_unlabel}"))
                .err()
                .as_deref(),
            Some("line 1: empty interval 5..2")
        );
    }
}
