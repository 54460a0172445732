//! Generation of personalized answers (§5).
//!
//! Top-K preferences are integrated into the user query and a personalized
//! answer is generated. It should be (a) *interesting* — satisfy at least
//! L of the K preferences; (b) *ranked* by degree of interest; and
//! (c) *self-explanatory* — each tuple knows which preferences it
//! satisfies and fails.
//!
//! Two generators are provided:
//! * [`spa::spa`] — **Simply Personalized Answers**: the top-K preferences
//!   are integrated into one SQL statement (a union of per-preference
//!   sub-queries, grouped and ranked by a user-defined aggregate), which
//!   the engine executes as a whole.
//! * [`ppa::ppa`] — **Progressive Personalized Answers** (Figure 6):
//!   per-preference queries are executed in order of increasing
//!   selectivity, tuples are completed via parameterized queries, and
//!   results stream out as soon as the MEDI bound proves no better tuple
//!   can still appear.

pub mod degree;
pub mod explain;
pub mod maint;
pub mod ppa;
pub mod spa;
pub mod subquery;

use qp_storage::Row;

/// One tuple of a personalized answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizedTuple {
    /// Row id of the tuple in the query's anchor relation (PPA only).
    pub tuple_id: Option<u64>,
    /// The initial query's projection for this tuple.
    pub row: Row,
    /// Overall degree of interest.
    pub doi: f64,
    /// Indexes (into the selected-preference list) of satisfied
    /// preferences. Empty for SPA, which the paper notes is not
    /// self-explanatory.
    pub satisfied: Vec<usize>,
    /// Indexes of failed preferences.
    pub failed: Vec<usize>,
}

/// A personalized answer: ranked, and (for PPA) self-explanatory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PersonalizedAnswer {
    /// Output column names (the initial query's projection).
    pub columns: Vec<String>,
    /// Tuples in rank order (PPA: emission order, which respects rank).
    pub tuples: Vec<PersonalizedTuple>,
}

impl PersonalizedAnswer {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Renders an aligned table with doi and explanations.
    pub fn display(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<8} {:<40} explanation\n", "doi", self.columns.join(", ")));
        for t in &self.tuples {
            let row: Vec<String> = t.row.iter().map(|v| v.to_string()).collect();
            out.push_str(&format!(
                "{:<8.4} {:<40} +{:?} -{:?}\n",
                t.doi,
                row.join(", "),
                t.satisfied,
                t.failed
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_storage::Value;

    #[test]
    fn display_contains_rows() {
        let a = PersonalizedAnswer {
            columns: vec!["title".into()],
            tuples: vec![PersonalizedTuple {
                tuple_id: Some(1),
                row: vec![Value::str("Annie Hall")],
                doi: 0.72,
                satisfied: vec![0],
                failed: vec![1],
            }],
        };
        let s = a.display();
        assert!(s.contains("Annie Hall"));
        assert!(s.contains("0.72"));
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
    }
}
