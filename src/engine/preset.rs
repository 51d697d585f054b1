//! The paper's two settings as engine presets — proof that the figures
//! are just one configuration of the general engine.
//!
//! The schemas, MDs and identity lists come from `matchrules_core::paper`,
//! which owns the paper's attribute names; the hand-chosen baselines the
//! §6 experiments compare against (fixed windowing keys, manual blocking
//! key, the 25 hand rules) live with those experiments in `crates/bench`.

use crate::engine::builder::EngineBuilder;
use matchrules_core::paper;

/// A ready-made paper configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Example 1.1: the 9/9-attribute `credit`/`billing` schemas with
    /// Σc = {ϕ1, ϕ2, ϕ3} and the 5-attribute identity lists.
    Example11,
    /// The §6 evaluation setting: extended 13/21-attribute schemas,
    /// 11-attribute identity lists, 7 MDs.
    Extended,
}

impl Preset {
    /// An [`EngineBuilder`] seeded with the preset's schemas (kind
    /// metadata attached), operator table, MDs and target — ready to
    /// customize (`top_k`, `window`, statistics) and compile.
    pub fn builder(self) -> EngineBuilder {
        let setting = self.paper_setting();
        EngineBuilder::from_parts(setting.pair, setting.ops, setting.sigma, setting.target)
    }

    /// The raw paper setting (schema pair, operator table, Σ, target) —
    /// for callers that need the shapes without compiling a plan, e.g.
    /// generating synthetic data over the preset's schemas.
    pub fn paper_setting(self) -> paper::PaperSetting {
        match self {
            Preset::Example11 => paper::example_1_1(),
            Preset::Extended => paper::extended(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_compile() {
        let plan = Preset::Example11.builder().compile().unwrap();
        assert_eq!(plan.sigma().len(), 3);
        assert!(!plan.rcks().is_empty());
        let plan = Preset::Extended.builder().top_k(5).compile().unwrap();
        assert_eq!(plan.sigma().len(), 7);
        assert_eq!(plan.rcks().len(), 5);
        assert!(plan.describe().contains("7 MDs"));
    }

    #[test]
    fn extended_plan_derives_two_sort_keys() {
        let plan = Preset::Extended.builder().top_k(5).compile().unwrap();
        assert_eq!(plan.sort_keys().len(), 2);
        assert!(
            plan.describe().contains("derived: 2 sort key(s), window 10, threads"),
            "{}",
            plan.describe()
        );
    }
}
