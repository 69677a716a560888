//! The experiment registry: one boxed [`Experiment`] per figure, table,
//! and ablation, in paper order.
//!
//! The CLI (`rbr list` / `rbr run`), the campaign ledger
//! (`BENCH_exec.json`), the benchmark's campaign workload, and the
//! framework smoke test all iterate this registry, so a new experiment
//! registered here is immediately runnable, timed, and tested — there is
//! no second table to keep in sync.

use super::framework::Experiment;
use super::{
    ablation, batch, conclusion, dual_queue, faults, fig1, fig3, fig4, fig5, forecast, moldable,
    queue_growth, stability, table1, table2, table3, table4, trace_check,
};

/// The set of registered experiments.
pub struct Registry {
    entries: Vec<Box<dyn Experiment>>,
}

impl Registry {
    /// All experiments of the reproduction, in paper order followed by
    /// the beyond-the-paper extensions.
    pub fn standard() -> Self {
        Registry {
            entries: vec![
                Box::new(fig1::Fig1),
                Box::new(table1::Table1),
                Box::new(table2::Table2),
                Box::new(fig3::Fig3),
                Box::new(table3::Table3),
                Box::new(fig4::Fig4),
                Box::new(fig5::Fig5),
                Box::new(table4::Table4),
                Box::new(queue_growth::QueueGrowth),
                Box::new(conclusion::Conclusion),
                Box::new(ablation::Ablations),
                Box::new(forecast::Forecast),
                Box::new(moldable::Moldable),
                Box::new(dual_queue::DualQueue),
                Box::new(trace_check::TraceCheck),
                Box::new(faults::Faults),
                Box::new(batch::Batch),
                Box::new(stability::Stability),
            ],
        }
    }

    /// Iterates the experiments in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.entries.iter().map(Box::as_ref)
    }

    /// Looks an experiment up by name or alias. Matching is
    /// case-insensitive and treats `_` and `-` as equivalent, so
    /// `queue_growth` finds `queue-growth`.
    pub fn get(&self, name: &str) -> Option<&dyn Experiment> {
        let wanted = name.trim().to_ascii_lowercase().replace('_', "-");
        self.iter()
            .find(|e| e.name() == wanted || e.aliases().contains(&wanted.as_str()))
    }

    /// Canonical names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.iter().map(|e| e.name()).collect()
    }

    /// Number of registered experiments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_and_aliases_are_unique() {
        let registry = Registry::standard();
        let mut seen = HashSet::new();
        for e in registry.iter() {
            assert!(seen.insert(e.name()), "duplicate name {:?}", e.name());
            for alias in e.aliases() {
                assert!(seen.insert(alias), "duplicate alias {alias:?}");
            }
        }
        assert_eq!(registry.len(), 18);
    }

    #[test]
    fn lookup_resolves_names_aliases_and_spellings() {
        let registry = Registry::standard();
        assert_eq!(registry.get("fig1").unwrap().name(), "fig1");
        // Figure 2 comes from the fig1 sweep; the alias keeps the old
        // CLI spelling working.
        assert_eq!(registry.get("fig2").unwrap().name(), "fig1");
        assert_eq!(registry.get("queue_growth").unwrap().name(), "queue-growth");
        assert_eq!(registry.get("Trace-Check").unwrap().name(), "trace-check");
        assert!(registry.get("nope").is_none());
        assert!(
            registry.get("all").is_none(),
            "'all' is CLI sugar, not an entry"
        );
    }

    #[test]
    fn every_entry_is_self_describing() {
        for e in Registry::standard().iter() {
            assert!(!e.name().is_empty());
            assert!(!e.description().is_empty(), "{}", e.name());
            assert!(!e.paper_section().is_empty(), "{}", e.name());
            assert!(
                e.name()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{:?} is not kebab-case",
                e.name()
            );
        }
    }
}
